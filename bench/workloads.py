"""Seeded input generator for the dqlocus benchmark.

``generate(workload, seed)`` returns the input files as bytes plus the
truth the checker compares outcomes against. The program under test only
ever sees the bytes; the truth is counted while the generator makes its
own decisions (which cell is missing, malformed, out of range, dropped by
the transform, which assertion line is invalid), never by running dqlocus.

Valid cells use one canonical form (``YYYY-MM-DD``,
``YYYY-MM-DDTHH:MM:SS``, plain decimals) and malformed cells are text no
Python version parses as a number, date or timestamp, so a stricter
ingest grammar leaves the truth unchanged.

Run as a script it writes the files and ``truth.json`` into ``--out``.
The benchmark generates in a child process so that the generator's memory
never shows in the measured process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from datetime import date, datetime, timedelta
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Rows (or assertion lines) per workload at full size.
SIZES = {
    "clean-100k": 100_000,
    "malformed-5k": 5_000,
    "paired-50k": 50_000,
    "assertions-100k": 100_000,
}
EXTRACT_WORKLOADS = ("clean-100k", "malformed-5k", "paired-50k")

MAX_LAG_HOURS = 72
MISSING_SHARE = 0.02
MALFORMED_SHARE = 0.30  # malformed-5k only, of Number/Date/Timestamp cells
DROP_SHARE = 0.05  # paired-50k: source-present values the transform loses
DROP_FIELDS = ("patient_id", "encounter_type", "diagnosis_code", "heart_rate", "admit_date")
N_ACTORS = 200
DEGENERACY_MIN_RECORDS = 50
DEGENERACY_MAX_SHARE = (9, 10)  # 0.9 as an exact ratio

SENTINELS = ("", "NULL", "NA")
MALFORMED_TEXT = ("#VALUE!", "??", "tbd", "x7", "12..5", "--", "n/a?", "1e", "unk")
ENCOUNTER_TYPES = ("emergency", "inpatient", "outpatient", "telehealth")
UNATTRIBUTED = "<unattributed>"
SOURCE, TRANSFORMED = "SourceExtract", "TransformedExtract"

MISSING, MALFORMED, TYPED = 0, 1, 2
_BASE_DAY = date(2024, 1, 1)
_BASE_TS = datetime(2024, 1, 1)


def manifest_doc(stage: str) -> dict:
    """The 11-field encounter manifest every extract workload shares."""
    def f(name, semantic, entry, actor, **extra):
        return {"name": name, "semantic_type": semantic, "entry_mode": entry,
                "generating_actor": actor, **extra}

    return {
        "dataset_id": "encounters",
        "stage": stage,
        "fields": [
            f("encounter_id", "Code", "AutoGenerated", "EHRSystem", required=True),
            f("patient_id", "Code", "AutoGenerated", "EHRSystem"),
            f("clinician_id", "Code", "AutoGenerated", "EHRSystem"),
            f("encounter_type", "Category", "EhrEnforced", "Clinician",
              allowed_values=list(ENCOUNTER_TYPES)),
            f("billable", "Category", "EhrEnforced", "Organization", allowed_values=["N", "Y"]),
            f("diagnosis_code", "Code", "FreeEntry", "Clinician",
              format_pattern=r"[A-Z][0-9]{2}(\.[0-9]{1,2})?",
              policy_condition={"field": "billable", "values": ["Y"]}),
            f("age_years", "Number", "FreeEntry", "Clinician", numeric_range=[0, 120]),
            f("heart_rate", "Number", "DeviceGenerated", "Wearable", numeric_range=[20, 250]),
            f("admit_date", "Date", "FreeEntry", "Clinician"),
            f("recorded_at", "Timestamp", "AutoGenerated", "EHRSystem"),
            f("available_at", "Timestamp", "AutoGenerated", "EHRSystem"),
        ],
        "actor_id_column": "clinician_id",
        "record_timestamp_column": "recorded_at",
        "availability_timestamp_column": "available_at",
        "key_column": "encounter_id",
    }


FIELD_NAMES = tuple(f["name"] for f in manifest_doc(SOURCE)["fields"])
TYPED_FIELDS = ("age_years", "heart_rate", "admit_date", "recorded_at", "available_at")
RANGES = {"age_years": (0, 120), "heart_rate": (20, 250)}


class Table:
    """Generated cells of one snapshot, column by column.

    ``raw[f][i]`` is the CSV text, ``state[f][i]`` is MISSING, MALFORMED
    or TYPED, and ``value[f][i]`` the typed value in generator units (int
    for numbers, day offset for dates, second offset for timestamps).
    ``conforms`` marks the diagnosis codes generated to match the pattern.
    """

    def __init__(self, n: int):
        self.n = n
        self.raw = {f: [] for f in FIELD_NAMES}
        self.state = {f: [] for f in FIELD_NAMES}
        self.value = {f: [] for f in FIELD_NAMES}
        self.conforms: list[bool] = []

    def actor(self, i: int) -> str:
        if self.state["clinician_id"][i] == MISSING:
            return UNATTRIBUTED
        return self.raw["clinician_id"][i]

    def csv_bytes(self, order: list[int] | None = None) -> bytes:
        cols = [self.raw[f] for f in FIELD_NAMES]
        rows = range(self.n) if order is None else order
        lines = [",".join(FIELD_NAMES)]
        lines.extend(",".join(col[i] for col in cols) for i in rows)
        return ("\n".join(lines) + "\n").encode()


def _encounters(rng: random.Random, n: int, malformed_share: float) -> Table:
    ids = [f"C{k:04d}" for k in range(1, N_ACTORS + 1)]
    cum, total = [], 0.0
    for k in range(1, N_ACTORS + 1):
        total += 1 / k**1.1
        cum.append(total)
    # a few authors who template one encounter type, and a few whose
    # encounters never carry a device heart rate: degeneracy screening finds them
    templated = set(rng.sample(ids, 8))
    no_device = set(rng.sample(sorted(set(ids) - templated), 6))
    actors = rng.choices(ids, cum_weights=cum, k=n)

    t = Table(n)
    random_ = rng.random

    def put(name, raw, value, *, typed=False, missing=MISSING_SHARE):
        r = random_()
        if r < missing:
            t.raw[name].append(rng.choice(SENTINELS))
            t.state[name].append(MISSING)
            t.value[name].append(None)
        elif typed and r < missing + malformed_share:
            t.raw[name].append(rng.choice(MALFORMED_TEXT))
            t.state[name].append(MALFORMED)
            t.value[name].append(None)
        else:
            t.raw[name].append(raw)
            t.state[name].append(TYPED)
            t.value[name].append(value)

    for i in range(n):
        actor = actors[i]
        put("encounter_id", f"E{i:08d}", None, missing=0.0)
        put("patient_id", f"P{rng.randrange(10**6):06d}", None)
        put("clinician_id", actor, None)

        if actor in templated:
            etype = "outpatient"
        elif random_() < 0.01:
            etype = "walk-in"  # not an allowed value
        else:
            etype = ENCOUNTER_TYPES[rng.randrange(4)]
        put("encounter_type", etype, None)

        billable = "U" if random_() < 0.01 else ("Y" if random_() < 0.7 else "N")
        put("billable", billable, None)

        conforms = random_() >= 0.03
        if conforms:
            code = f"{chr(65 + rng.randrange(26))}{rng.randrange(100):02d}"
            if random_() < 0.5:
                code += f".{rng.randrange(10 ** (1 + rng.randrange(2)))}"
        else:
            code = rng.choice(("e11", "E1", "E11.123", "11E"))
        # unbillable encounters often go uncoded: the policy explains that gap
        put("diagnosis_code", code, None, missing=0.30 if billable == "N" else MISSING_SHARE)
        t.conforms.append(conforms)

        age = rng.randrange(121, 140) if random_() < 0.02 else rng.randrange(0, 101)
        put("age_years", str(age), age, typed=True)
        hr = rng.choice((rng.randrange(5, 20), rng.randrange(251, 300))) if random_() < 0.02 \
            else rng.randrange(40, 181)
        put("heart_rate", str(hr), hr, typed=True, missing=1.0 if actor in no_device else MISSING_SHARE)

        day = rng.randrange(366)
        put("admit_date", (_BASE_DAY + timedelta(days=day)).isoformat(), day, typed=True)
        rec = day * 86400 + (-rng.randrange(1, 86400) if random_() < 0.02 else rng.randrange(2 * 86400))
        put("recorded_at", (_BASE_TS + timedelta(seconds=rec)).isoformat(), rec, typed=True)
        r = random_()
        if r < 0.03:
            lag = -rng.randrange(1, 3600)
        elif r < 0.15:
            lag = rng.randrange(MAX_LAG_HOURS * 3600 + 1, 30 * 86400)
        else:
            lag = rng.randrange(MAX_LAG_HOURS * 3600 + 1)
        put("available_at", (_BASE_TS + timedelta(seconds=rec + lag)).isoformat(), rec + lag, typed=True)
    return t


def _transform(rng: random.Random, src: Table) -> tuple[Table, dict[str, int]]:
    """Copy of ``src`` that loses DROP_SHARE of the present values in DROP_FIELDS."""
    dst = Table(src.n)
    drops = {}
    for f in FIELD_NAMES:
        dst.raw[f] = list(src.raw[f])
        dst.state[f] = list(src.state[f])
        dst.value[f] = list(src.value[f])
    dst.conforms = list(src.conforms)
    for f in DROP_FIELDS:
        dropped = 0
        for i in range(src.n):
            if src.state[f][i] != MISSING and rng.random() < DROP_SHARE:
                dst.raw[f][i], dst.state[f][i], dst.value[f][i] = "", MISSING, None
                dropped += 1
        drops[f] = dropped
    return dst, drops


# --- truth ------------------------------------------------------------------

def _expect(kind, targets, stage, den_rows, num_rows, t: Table | None, *, subset=None,
            stratify=False, details=None) -> dict:
    """Expected outcome of one check, from the rows the generator knows
    belong to its denominator and numerator."""
    exp = {
        "kind": kind,
        "target_fields": list(targets),
        "stage": stage,
        "subset": subset,
        "status": "Ok" if den_rows else "NotAssessable",
        "numerator": len(num_rows),
        "denominator": len(den_rows),
        "violations": len(den_rows) - len(num_rows),
        "strata": None,
    }
    if stratify:
        strata: dict[str, list[int]] = {}
        for i in den_rows:
            s = strata.setdefault(t.actor(i), [0, 0])
            s[1] += 1
            if i in num_rows:
                s[0] += 1
        exp["strata"] = {sid: strata[sid] for sid in sorted(strata)}
    if details:
        exp["details"] = details
    return exp


def _typed(t: Table, *fields: str) -> list[int]:
    states = [t.state[f] for f in fields]
    return [i for i in range(t.n) if all(s[i] == TYPED for s in states)]


def _completeness(t, f, stage, *, stratify=False, details=None):
    rows = range(t.n)
    num = {i for i in rows if t.state[f][i] == TYPED}
    return _expect("Completeness", (f,), stage, rows, num, t, stratify=stratify, details=details)


def _required_rows(t: Table) -> list[int]:
    return [i for i in range(t.n)
            if t.state["billable"][i] == TYPED and t.raw["billable"][i] == "Y"]


def _timeliness(t, stage, *, stratify=False):
    den = _typed(t, "recorded_at", "available_at")
    rec, avail = t.value["recorded_at"], t.value["available_at"]
    num = {i for i in den if 0 <= avail[i] - rec[i] <= MAX_LAG_HOURS * 3600}
    return _expect("Timeliness", ("recorded_at", "available_at"), stage, den, num, t, stratify=stratify)


def _temporal(t, stage, *, stratify=False):
    den = _typed(t, "admit_date", "recorded_at")
    day, rec = t.value["admit_date"], t.value["recorded_at"]
    num = {i for i in den if day[i] * 86400 <= rec[i]}
    return _expect("PlausibilityTemporal", ("admit_date", "recorded_at"), stage, den, num, t,
                   stratify=stratify)


def _degeneracy(t: Table, f: str, stage: str) -> dict:
    rows_by_actor: dict[str, list[int]] = {}
    for i in range(t.n):
        rows_by_actor.setdefault(t.actor(i), []).append(i)
    strata, flagged, eligible, violations = {}, 0, 0, 0
    top_n, top_d = DEGENERACY_MAX_SHARE
    for sid in sorted(rows_by_actor):
        rows = rows_by_actor[sid]
        if sid == UNATTRIBUTED or len(rows) < DEGENERACY_MIN_RECORDS:
            strata[sid] = [0, 0, []]
            continue
        eligible += 1
        recorded = [t.raw[f][i] for i in rows if t.state[f][i] == TYPED]
        flags = []
        if not recorded:
            flags.append("NeverRecords")
        else:
            counts: dict[str, int] = {}
            for v in recorded:
                counts[v] = counts.get(v, 0) + 1
            if max(counts.values()) * top_d >= top_n * len(recorded):
                flags.append("AlwaysSame")
        if flags:
            flagged += 1
            violations += len(rows)
        strata[sid] = [1 if flags else 0, 1, flags]
    return {
        "kind": "DegeneracyByActor", "target_fields": [f], "stage": stage, "subset": None,
        "status": "Ok" if eligible else "NotAssessable", "numerator": flagged,
        "denominator": eligible, "violations": violations, "strata": strata,
    }


def standard_truth(t: Table) -> list[dict]:
    """Expected outcomes of ``standard_suite(manifest, max_lag=72h)``: one
    completeness check per field, where-required completeness for the
    policy field, conformance where the manifest configures it, range
    plausibility on the bounded numbers, and timeliness."""
    stage = SOURCE
    required = _required_rows(t)
    out = []
    for f in FIELD_NAMES:
        details = None
        if f == "diagnosis_code":
            absent = {i for i in range(t.n) if t.state[f][i] != TYPED}
            details = {
                "policy_explained": bool(absent) and not (absent & set(required)),
                "policy_text": "states diagnosis_code required only where billable = Y",
            }
        out.append(_completeness(t, f, stage, details=details))
        present = [i for i in range(t.n) if t.state[f][i] != MISSING]
        if f == "diagnosis_code":
            num = {i for i in required if t.state[f][i] == TYPED}
            out.append(_expect("Completeness", (f,), stage, required, num, t, subset="where-required"))
            num = {i for i in present if t.conforms[i]}
            out.append(_expect("ConformanceFormat", (f,), stage, present, num, t))
        elif f in ("encounter_type", "billable"):
            allowed = set(ENCOUNTER_TYPES) if f == "encounter_type" else {"N", "Y"}
            num = {i for i in present if t.raw[f][i] in allowed}
            out.append(_expect("ConformanceValue", (f,), stage, present, num, t))
        elif f in TYPED_FIELDS:
            num = {i for i in present if t.state[f][i] == TYPED}
            out.append(_expect("ConformanceFormat", (f,), stage, present, num, t))
        if f in RANGES:
            lo, hi = RANGES[f]
            den = _typed(t, f)
            num = {i for i in den if lo <= t.value[f][i] <= hi}
            out.append(_expect("PlausibilityRange", (f,), stage, den, num, t))
    out.append(_timeliness(t, stage))
    return out


#: The suite document of paired-50k, read by ``load_suite``; stratified
#: checks rebuild the row-to-actor map, degeneracy groups rows by actor.
PAIRED_SUITE = [
    {"id": "completeness:diagnosis_code@src", "kind": "Completeness",
     "target_fields": ["diagnosis_code"], "stage": SOURCE, "stratify_by_actor": True},
    {"id": "completeness:heart_rate@src", "kind": "Completeness",
     "target_fields": ["heart_rate"], "stage": SOURCE, "stratify_by_actor": True},
    {"id": "completeness:diagnosis_code@dst", "kind": "Completeness",
     "target_fields": ["diagnosis_code"], "stage": TRANSFORMED, "stratify_by_actor": True},
    {"id": "timeliness@src", "kind": "Timeliness", "target_fields": ["recorded_at", "available_at"],
     "stage": SOURCE, "stratify_by_actor": True, "config": {"max_lag": f"{MAX_LAG_HOURS}h"}},
    {"id": "temporal:admit<=recorded@src", "kind": "PlausibilityTemporal",
     "target_fields": ["admit_date", "recorded_at"], "stage": SOURCE, "stratify_by_actor": True},
    {"id": "degeneracy:encounter_type@src", "kind": "DegeneracyByActor",
     "target_fields": ["encounter_type"], "stage": SOURCE,
     "config": {"min_records": DEGENERACY_MIN_RECORDS, "max_dominant_share": "0.9"}},
    {"id": "degeneracy:heart_rate@src", "kind": "DegeneracyByActor",
     "target_fields": ["heart_rate"], "stage": SOURCE,
     "config": {"min_records": DEGENERACY_MIN_RECORDS, "max_dominant_share": "0.9"}},
]


def paired_truth(src: Table, dst: Table) -> list[dict]:
    out = [
        _completeness(src, "diagnosis_code", SOURCE, stratify=True),
        _completeness(src, "heart_rate", SOURCE, stratify=True),
        _completeness(dst, "diagnosis_code", TRANSFORMED, stratify=True),
        _timeliness(src, SOURCE, stratify=True),
        _temporal(src, SOURCE, stratify=True),
        _degeneracy(src, "encounter_type", SOURCE),
        _degeneracy(src, "heart_rate", SOURCE),
    ]
    for f in sorted(FIELD_NAMES):
        if f == "encounter_id":
            continue
        den = [i for i in range(src.n) if src.state[f][i] != MISSING]
        num = {i for i in den if dst.state[f][i] != MISSING}
        out.append(_expect("MappingSuccess", (f, f), TRANSFORMED, den, num, None))
    return out


def column_truth(t: Table) -> dict[str, dict[str, int]]:
    out = {}
    for f in FIELD_NAMES:
        states = t.state[f]
        entry = {"missing": states.count(MISSING), "malformed": states.count(MALFORMED)}
        if f in RANGES:
            lo, hi = RANGES[f]
            entry["out_of_range"] = sum(
                1 for s, v in zip(states, t.value[f]) if s == TYPED and not lo <= v <= hi)
        out[f] = entry
    return out


# --- assertion files --------------------------------------------------------

LABELS = ("Completeness", "Conformance", "Plausibility", "Timeliness", "Interoperability",
          "Governance", "Accessibility", "Relevance", "OperatingPlatform",
          "Policy", "Mapping", "Uptime")  # Uptime resolves to no parameter: a warning only
QUALIFIERS = ("success", "of encounters", "of required fields", "after mapping")
POLICY_TEXT = ("states diagnosis required only for billable", "documents retention of raw extracts")
SYNTAX_ERRORS = (
    "{locus} ({label}: {value}",  # no closing paren
    "{lower} ({label}: {value})",  # actor not an identifier
    "XYZ-{locus} ({label}: {value})",  # unknown organization
    "{locus} ({label} {value})",  # no ': '
    "{locus} ({label}:)",  # empty value
    "{locus} ({label}: 94%x)",  # junk after the percent
    "{locus} ({label}: {value}) trailing",
)


def _percent(rng: random.Random) -> str:
    precision = rng.choice((0, 0, 0, 1, 2))
    whole = 100 if rng.random() < 0.02 else rng.randrange(100)
    if precision == 0:
        return f"{whole}%"
    decimals = "0" * precision if whole == 100 else "".join(
        str(rng.randrange(10)) for _ in range(precision))
    return f"{whole}.{decimals}%"


def _value(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.1:
        return rng.choice(POLICY_TEXT)
    pct = _percent(rng)
    return f"{pct} {rng.choice(QUALIFIERS)}" if r < 0.4 else pct


def assertion_file(rng: random.Random, n: int) -> tuple[bytes, dict]:
    """An assertion file of ``n`` lines and its truth: ``codes[k]`` is
    ``c`` (comment), ``v`` (valid, canonical), ``w`` (valid, canonical, its
    label resolves to no parameter so strict parsing rejects it), ``n``
    (valid, not canonical, its canonical form in ``canonical``) or ``x``
    (invalid) for line k+1."""
    from dqlocus.taxonomy import builtin_registry, enumerate_loci

    loci = [str(l) for l in enumerate_loci()]
    allowed = set(loci)
    dgo = [l for l in loci if l.startswith("DGO-")]
    aliased = [(a.canonical_name, alias) for a in builtin_registry() for alias in sorted(a.aliases)]
    actors = sorted(a.canonical_name for a in builtin_registry())
    invalid_loci = [f"{o}-{p}-{a}" for o in ("DGO", "DRO") for p in ("DG", "DT", "DR") for a in actors
                    if f"{o}-{p}-{a}" not in allowed]

    lines, codes, canonical = [], [], {}
    for k in range(n):
        r = rng.random()
        label, value = rng.choice(LABELS), _value(rng)
        if r < 0.03:
            lines.append(f"# review batch {k // 1000}: {rng.choice(QUALIFIERS)}")
            codes.append("c")
        elif r < 0.08:
            locus = rng.choice(loci)
            lower = locus[:locus.rindex("-") + 1] + locus[locus.rindex("-") + 1:].lower()
            lines.append(rng.choice(SYNTAX_ERRORS).format(locus=locus, lower=lower, label=label,
                                                         value=value))
            codes.append("x")
        elif r < 0.12:
            locus = rng.choice(dgo)
            lines.append(f"{locus[4:]} ({label}: {value})")  # short form: org defaults to DGO
            canonical[str(k + 1)] = f"{locus} ({label}: {value})"
            codes.append("n")
        elif r < 0.14:
            name, alias = rng.choice(aliased)
            locus = rng.choice([l for l in loci if l.endswith("-" + name)])
            lines.append(f"{locus[:-len(name)]}{alias} ({label}: {value})")
            canonical[str(k + 1)] = f"{locus} ({label}: {value})"
            codes.append("n")
        elif r < 0.16:
            if rng.random() < 0.5:
                lines.append(f"{rng.choice(invalid_loci)} ({label}: {value})")
            else:
                lines.append(f"{rng.choice(loci)} ({label}: 10{rng.randrange(1, 10)}%)")
            codes.append("x")
        else:
            lines.append(f"{rng.choice(loci)} ({label}: {value})")
            codes.append("w" if label == "Uptime" else "v")
    return ("\n".join(lines) + "\n").encode(), {"codes": "".join(codes), "canonical": canonical}


# --- entry points -----------------------------------------------------------

def generate(workload: str, seed: int, size: int | None = None) -> tuple[dict[str, bytes], dict]:
    """Input files (name -> bytes) and truth for one workload and seed."""
    n = SIZES[workload] if size is None else size
    rng = random.Random(f"{workload}:{seed}")
    if workload == "assertions-100k":
        text, truth = assertion_file(rng, n)
        return {"assertions.txt": text}, {"lines": n, **truth}

    manifest = json.dumps(manifest_doc(SOURCE), indent=2).encode()
    malformed = MALFORMED_SHARE if workload == "malformed-5k" else 0.0
    src = _encounters(rng, n, malformed)
    files = {"manifest.json": manifest, "source.csv": src.csv_bytes()}
    truth = {"rows": n, "columns": {SOURCE: column_truth(src)}}
    if workload != "paired-50k":
        truth["checks"] = standard_truth(src)
        return files, truth

    dst, drops = _transform(rng, src)
    order = list(range(n))
    rng.shuffle(order)  # the transform reorders rows: mapping must join on the key
    files["transformed.json"] = json.dumps(manifest_doc(TRANSFORMED), indent=2).encode()
    files["transformed.csv"] = dst.csv_bytes(order)
    files["suite.json"] = json.dumps(PAIRED_SUITE, indent=2).encode()
    truth["rows"] = 2 * n
    truth["columns"][TRANSFORMED] = column_truth(dst)
    truth["mapping_drops"] = drops
    truth["checks"] = paired_truth(src, dst)
    return files, truth


def write(workload: str, seed: int, out: Path) -> None:
    files, truth = generate(workload, seed)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (out / name).write_bytes(data)
    (out / "truth.json").write_text(json.dumps(truth))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))  # assertion files draw their loci from dqlocus.taxonomy
    write(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()

"""Tests of the benchmark itself, at sizes that run in a second or two."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import checker
import passes
from dqlocus import assess, ingest
from spans import Tracer, summarize
from workloads import EXTRACT_WORKLOADS, SIZES, generate

TINY = 400


@pytest.mark.parametrize("workload", sorted(SIZES))
def test_generator_is_deterministic_for_a_seed(workload):
    assert generate(workload, 7, TINY) == generate(workload, 7, TINY)
    assert generate(workload, 7, TINY)[0] != generate(workload, 8, TINY)[0]


@pytest.mark.parametrize("workload", EXTRACT_WORKLOADS)
def test_truth_matches_outcomes(workload):
    files, truth = generate(workload, 3, TINY)
    report = checker.check_outcomes(passes.PASSES[workload](files), truth)
    assert report.problems == []
    assert report.attempted == len(truth["checks"]) > 0

    manifest = ingest.load_manifest(files["manifest.json"])
    snapshot = ingest.load_dataset(files["source.csv"], manifest)
    for name, counts in truth["columns"]["SourceExtract"].items():
        column = snapshot.column(name)
        assert (len(column.missing), len(column.failures)) == (counts["missing"], counts["malformed"])


def test_truth_matches_assertion_results():
    files, truth = generate("assertions-100k", 3, TINY)
    report = checker.check_assertions(passes.assertions_pass(files), files["assertions.txt"], truth)
    assert report.problems == []
    assert report.attempted == TINY - truth["codes"].count("c")
    assert set(truth["codes"]) == set("cvwnx")


def _tamper_numerator(result: bytes) -> bytes:
    doc = json.loads(result)
    outcome = next(o for o in doc["outcomes"] if 0 < o["numerator"] < o["denominator"])
    outcome["numerator"] += 1
    outcome["rate"] = str(Fraction(outcome["numerator"], outcome["denominator"]))
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def test_checker_counts_a_tampered_numerator():
    files, truth = generate("clean-100k", 5, TINY)
    tampered = _tamper_numerator(passes.extract_pass(files))
    assert assess.outcomes_from_json(tampered)  # still a well-formed document
    report = checker.check_outcomes(tampered, truth)
    assert report.failed == 1
    assert "numerator" in report.problems[0]


def test_checker_fails_every_check_when_the_document_does_not_round_trip():
    files, truth = generate("malformed-5k", 5, TINY)
    doc = json.loads(passes.extract_pass(files))
    report = checker.check_outcomes(json.dumps(doc).encode(), truth)  # not the canonical layout
    assert report.failed == report.attempted == len(truth["checks"])


def _flip(result: bytes, rejected: bool) -> bytes:
    rows = result.decode().splitlines()
    i = next(i for i, row in enumerate(rows) if row.split("\t")[1].startswith("!") == rejected)
    n, text = rows[i].split("\t")
    rows[i] = f"{n}\tDGO-DG-Clinician (Completeness: 1%)" if rejected else f"{n}\t!Flipped"
    return ("\n".join(rows) + "\n").encode()


@pytest.mark.parametrize("rejected", [True, False])
def test_checker_counts_a_flipped_accept_or_reject(rejected):
    files, truth = generate("assertions-100k", 5, TINY)
    flipped = _flip(passes.assertions_pass(files), rejected)
    report = checker.check_assertions(flipped, files["assertions.txt"], truth)
    assert report.failed == 1


def test_traced_pass_spans_cover_the_pass_and_wrappers_are_removed():
    files, _ = generate("paired-50k", 2, TINY)
    originals = (ingest.load_dataset, assess.run_check, assess.run_suite)
    tracer = Tracer()
    passes.instrument(tracer)
    try:
        traced = tracer.run_pass(lambda: passes.paired_pass(files))
    finally:
        tracer.restore()
    assert (ingest.load_dataset, assess.run_check, assess.run_suite) == originals
    assert traced == passes.paired_pass(files)

    s = summarize(tracer.spans)
    assert s["calls"]["ingest.load_dataset"] == 2
    assert s["calls"]["assess.check"] == 17
    (pass_s, covered_s), = s["passes"]
    assert 0 < covered_s <= pass_s
    run_suite = next(i for i, span in enumerate(tracer.spans) if span[0] == "assess.run_suite")
    assert all(span[3] == run_suite for span in tracer.spans if span[0] == "assess.check")


def test_memory_pass_reports_both_peaks_and_the_same_result():
    files, _ = generate("malformed-5k", 2, TINY)
    out, peaks = passes.memory_pass(passes.extract_pass, files)
    assert out == passes.extract_pass(files)
    assert set(peaks) == {"ingest.load_dataset.peak_mb", "assess.run_suite.peak_mb"}
    assert all(v > 0 for v in peaks.values())


def test_metric_names_and_units_match_benchmark_json():
    import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: u for k, (_, u) in run.end_to_end_metrics(0.1, 1.0, 10, 5.0).items()} == want_e2e

    files, truth = generate("paired-50k", 2, TINY)
    result = passes.paired_pass(files)
    report = checker.check_outcomes(result, truth)
    layer, digests, _, slowest = run.layer_metrics(
        "paired-50k", files, passes.paired_pass, report, result)
    assert {k: u for k, (_, u) in layer.items()} | {"failed_share": "share"} == want_layer
    assert len(digests) == 4 and len(set(digests)) == 1  # memory, untraced, traced, untraced
    assert slowest[1].startswith(("mapping:", "completeness:", "timeliness", "temporal", "degeneracy"))

"""dqlocus benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload clean-100k --seed 1 --seconds 10 --trace 0

Inputs come from ``workloads.py`` in a child process and reach dqlocus only
as bytes. The run then makes back-to-back passes (a closed loop with one
client) for ``--seconds`` seconds, each from input bytes to result bytes,
and checks every pass's result against the generator's truth.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of importing the four dqlocus modules and building the
builtin actor registry), ``pass_s`` (median pass), ``rows_per_s``, and
``peak_rss_mb`` (peak resident memory of the first pass above the
process's size just before it). ``--trace 1`` adds a tracemalloc pass
(extract workloads only) and a traced pass between two untraced ones, and
reports the per-layer metrics instead; the spans go to ``.bench_out/``.
Lines before the last start with ``#`` and are for people; the last line
is the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from workloads import ROOT, SIZES, SRC

SETUP_SAMPLES = 80
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dqlocus.ingest, dqlocus.assess, dqlocus.notation, dqlocus.taxonomy
dqlocus.taxonomy.builtin_registry()
print(time.perf_counter() - t0)
"""
# fixed here rather than read from dqlocus.assess.CheckKind, so that the
# metric names stay those BENCHMARK.json lists whatever the program defines
CHECK_KINDS = ("Completeness", "ConformanceValue", "ConformanceFormat", "PlausibilityRange",
               "PlausibilityTemporal", "DegeneracyByActor", "Timeliness", "MappingSuccess")


def snake(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def measure_setup() -> float:
    """Median import + registry time over fresh interpreters; one
    unmeasured start first, so bytecode caches are written."""
    times = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)], check=True,
                             capture_output=True, text=True, timeout=60).stdout
        if i:
            times.append(float(out))
    return statistics.median(times)


def generate(workload: str, seed: int, work: Path) -> tuple[dict[str, bytes], dict]:
    subprocess.run([sys.executable, str(Path(__file__).with_name("workloads.py")),
                    "--workload", workload, "--seed", str(seed), "--out", str(work)],
                   check=True, timeout=170)
    truth = json.loads((work / "truth.json").read_text())
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir()) if p.name != "truth.json"}
    return files, truth


def rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def timed_passes(fn, files, seconds: float):
    """Closed loop of passes; returns durations, result digests, the
    first result and the first pass's peak RSS growth."""
    gc.collect()
    base = rss_mb()
    durations, digests, first, peak = [], [], None, 0.0
    stop = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        out = fn(files)
        t1 = perf_counter()
        if first is None:
            peak = peak_rss_mb() - base
            first = out
        durations.append(t1 - t0)
        digests.append(hashlib.sha256(out).hexdigest())
        del out
        gc.collect()
        if perf_counter() >= stop:
            return durations, digests, first, peak


def csv_floor(files: dict[str, bytes]) -> float:
    """Median over three tries of decoding and ``csv.reader`` alone over
    every CSV the pass loads."""
    tries = []
    for _ in range(3):
        t0 = perf_counter()
        for name, data in files.items():
            if name.endswith(".csv"):
                list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
        tries.append(perf_counter() - t0)
    return statistics.median(tries)


def end_to_end_metrics(setup_s: float, pass_s: float, rows: int, peak_mb: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (pass_s, "s"),
        "rows_per_s": (rows / pass_s, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def layer_metrics(workload, files, fn, report, result):
    """Per-layer metrics from one memory pass and one traced pass, which
    runs between two untraced passes so that the tracing overhead compares
    passes made under the same machine state; also returns the result
    digests of those passes, the tracer and the slowest check as
    (seconds, id)."""
    import passes
    from spans import Tracer, summarize

    extract = workload != "assertions-100k"
    digests = []
    peaks: dict[str, float] = {}
    if extract:
        out, peaks = passes.memory_pass(fn, files)
        digests.append(hashlib.sha256(out).hexdigest())
        del out
        gc.collect()

    def untraced() -> float:
        t0 = perf_counter()
        out = fn(files)
        t1 = perf_counter()
        digests.append(hashlib.sha256(out).hexdigest())
        return t1 - t0

    before = untraced()
    tracer = Tracer()
    passes.instrument(tracer)
    try:
        out = tracer.run_pass(lambda: fn(files))
    finally:
        tracer.restore()
    digests.append(hashlib.sha256(out).hexdigest())
    del out
    after = untraced()
    s = summarize(tracer.spans)
    total, calls = s["total"], s["calls"]

    cells = [a for n, *_, a in tracer.spans if n == "ingest.load_dataset" and a]
    n_cells = sum(c[0] for c in cells)
    load_s = total.get("ingest.load_dataset", 0.0)
    m = {
        "ingest.load_manifest_s": (total.get("ingest.load_manifest", 0.0), "s"),
        "ingest.load_dataset_s": (load_s, "s"),
        "ingest.load_dataset.us_per_cell": (load_s / n_cells * 1e6 if n_cells else 0.0, "us"),
        "ingest.load_dataset.peak_mb": (peaks.get("ingest.load_dataset.peak_mb", 0.0), "MB"),
        "ingest.csv_reader_floor_s": (csv_floor(files) if extract else 0.0, "s"),
        "ingest.cells": (n_cells, "count"),
        "ingest.missing_cells": (sum(c[1] for c in cells), "count"),
        "ingest.malformed_cells": (sum(c[2] for c in cells), "count"),
        "assess.suite_build_s": (total.get("assess.suite_build", 0.0), "s"),
        "assess.run_suite_s": (total.get("assess.run_suite", 0.0), "s"),
        "assess.run_suite.peak_mb": (peaks.get("assess.run_suite.peak_mb", 0.0), "MB"),
    }
    per_kind = {k: [0.0, 0] for k in CHECK_KINDS}
    slowest = (0.0, "-")
    for name, start, end, _, _, attr in tracer.spans:
        if name == "assess.check":
            kind, check_id = attr
            per_kind[kind][0] += end - start
            per_kind[kind][1] += 1
            slowest = max(slowest, (end - start, check_id))
    for kind, (t, n) in per_kind.items():
        m[f"assess.check.{snake(kind)}_s"] = (t, "s")
        m[f"assess.check.{snake(kind)}.calls"] = (n, "count")
    m["assess.check.max_s"] = (slowest[0], "s")
    m["assess.outcomes_to_json_s"] = (total.get("assess.outcomes_to_json", 0.0), "s")
    m["assess.outcomes_bytes"] = (len(result) if extract else 0, "bytes")
    for name in ("checks", "checks_errored", "violations"):
        m[f"assess.{name}"] = (report.counts.get(name, 0), "count")
    for name in ("parse_assertion_file", "validate_assertion", "canonicalize", "serialize_assertion"):
        m[f"notation.{name}_s"] = (total.get(f"notation.{name}", 0.0), "s")
    for name in ("lines", "accepted", "issues"):
        m[f"notation.{name}"] = (report.counts.get(name, 0), "count")
    for layer in ("ingest", "assess", "notation", "bench"):
        m[f"{layer}.self_s"] = (s["layer_self"].get(layer, 0.0), "s")
    (traced_s, covered_s), = s["passes"]
    m["trace.pass_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - (before + after) / 2, "s")
    m["trace.top_level_share"] = (covered_s / traced_s, "share")
    m["trace.spans"] = (sum(calls.values()), "count")
    return m, digests, tracer, slowest


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="dqlocus benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dqlocus").is_dir():
        print(f"bench: no dqlocus sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checker
    import passes

    setup_s = measure_setup()
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as work:
        files, truth = generate(args.workload, args.seed, Path(work))

    fn = passes.PASSES[args.workload]
    durations, digests, result, peak = timed_passes(fn, files, args.seconds)
    if args.workload == "assertions-100k":
        report = checker.check_assertions(result, files["assertions.txt"], truth)
        rows = truth["lines"]
    else:
        report = checker.check_outcomes(result, truth)
        rows = truth["rows"]
    pass_s = statistics.median(durations)

    print(f"# workload {args.workload}, seed {args.seed}: {len(durations)} passes, pass_s "
          f"min {min(durations):.4f} median {pass_s:.4f} max {max(durations):.4f}")
    print(f"# result sha256 {digests[0]}")
    layer = None
    if args.trace:
        layer, extra, tracer, slowest = layer_metrics(args.workload, files, fn, report, result)
        digests += extra
        trace_path = ROOT / ".bench_out" / f"spans-{args.workload}.json"
        tracer.dump(trace_path)
        print(f"# traced pass {layer['trace.pass_s'][0]:.4f} s, top-level spans cover "
              f"{layer['trace.top_level_share'][0]:.1%} of it, tracing overhead "
              f"{layer['trace.overhead_s'][0]:+.4f} s; spans in {trace_path.relative_to(ROOT)}")
        if slowest[0]:
            print(f"# slowest check: {slowest[1]} {slowest[0]:.4f} s")

    # the first result was checked in full; every other pass (timed, memory
    # or traced) must reproduce it byte for byte
    differ = sum(d != digests[0] for d in digests)
    attempted = report.attempted * len(digests)
    failed = report.failed * (len(digests) - differ) + report.attempted * differ
    print(f"# failed_share {failed / attempted:.6f} ({failed} of {attempted} operations "
          f"in {len(digests)} passes)")
    for problem in report.problems:
        print(f"# failure: {problem}")
    if differ:
        print(f"# failure: {differ} passes produced a different result from the first")

    if layer is None:
        metrics = end_to_end_metrics(setup_s, pass_s, rows, peak)
    else:
        metrics = dict(layer, failed_share=(failed / attempted, "share"))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark pass per workload: input bytes in, result bytes out.

Each pass calls dqlocus's public functions through their modules
(``ingest.load_dataset(...)``, not a name imported from it), so the traced
and memory passes can swap in wrappers without touching the program.
"""

from __future__ import annotations

import sys
import tracemalloc
from datetime import timedelta
from typing import Any, Callable

from dqlocus import assess, ingest, notation

from spans import Patches, Tracer
from workloads import MAX_LAG_HOURS

MAX_LAG = timedelta(hours=MAX_LAG_HOURS)
Files = dict[str, bytes]


def extract_pass(files: Files) -> bytes:
    """manifest + CSV -> snapshot -> standard_suite -> run_suite -> outcomes JSON."""
    manifest = ingest.load_manifest(files["manifest.json"])
    snapshot = ingest.load_dataset(files["source.csv"], manifest)
    suite = assess.standard_suite(manifest, max_lag=MAX_LAG)
    outcomes = assess.run_suite(suite, assess.Snapshots(source=snapshot))
    return assess.outcomes_to_json(outcomes).encode()


def paired_pass(files: Files) -> bytes:
    """Source and transformed snapshots -> mapping_suite + suite document ->
    run_suite -> outcomes JSON."""
    src_manifest = ingest.load_manifest(files["manifest.json"])
    dst_manifest = ingest.load_manifest(files["transformed.json"])
    source = ingest.load_dataset(files["source.csv"], src_manifest)
    transformed = ingest.load_dataset(files["transformed.csv"], dst_manifest)
    suite = assess.mapping_suite(src_manifest, dst_manifest) + assess.load_suite(files["suite.json"])
    outcomes = assess.run_suite(suite, assess.Snapshots(source=source, transformed=transformed))
    return assess.outcomes_to_json(outcomes).encode()


def assertions_pass(files: Files) -> bytes:
    """Lenient parse -> validate -> canonicalize + serialize. Each result
    line is ``<line number>\\t<canonical assertion>`` for an accepted line
    or ``<line number>\\t!<error>`` for a rejected one."""
    text = files["assertions.txt"].decode()
    assertions, issues = notation.parse_assertion_file(text, mode=notation.ParseMode.LENIENT)
    return judge(assertions, issues)


def judge(assertions: list, issues: list) -> bytes:
    """The benchmark's own per-line work after parsing: validate, then
    canonicalize and serialize what validation accepts, and write the
    result lines. Traced as one span so that the pass's top-level spans
    cover it."""
    out = []
    for n, assertion in assertions:
        errors = [f.code for f in notation.validate_assertion(assertion)
                  if f.severity is notation.Severity.ERROR]
        if errors:
            out.append(f"{n}\t!{errors[0]}")
        else:
            out.append(f"{n}\t{notation.serialize_assertion(notation.canonicalize(assertion))}")
    out.extend(f"{issue.line_number}\t!{issue.error}" for issue in issues)
    return ("\n".join(out) + "\n").encode()


PASSES: dict[str, Callable[[Files], bytes]] = {
    "clean-100k": extract_pass,
    "malformed-5k": extract_pass,
    "paired-50k": paired_pass,
    "assertions-100k": assertions_pass,
}


def cell_counts(snapshot: Any, *_: Any) -> tuple[int, int, int] | None:
    """(cells, missing, malformed) of a loaded snapshot."""
    if snapshot is None:
        return None
    cols = snapshot.columns.values()
    return (snapshot.row_count * len(snapshot.columns),
            sum(len(c.missing) for c in cols), sum(len(c.failures) for c in cols))


def instrument(tracer: Tracer) -> None:
    """Wrap every public function a pass reaches, one span name per call site."""
    tracer.wrap(ingest, "load_manifest", "ingest.load_manifest")
    tracer.wrap(ingest, "load_dataset", "ingest.load_dataset", label=cell_counts)
    for name in ("standard_suite", "mapping_suite", "load_suite"):
        tracer.wrap(assess, name, "assess.suite_build", label=lambda *_, n=name: n)
    tracer.wrap(assess, "run_suite", "assess.run_suite")
    tracer.wrap(assess, "run_check", "assess.check", label=lambda _, d, *__: (d.kind.value, d.id))
    tracer.wrap(assess, "outcomes_to_json", "assess.outcomes_to_json")
    for name in ("parse_assertion_file", "validate_assertion", "canonicalize", "serialize_assertion"):
        tracer.wrap(notation, name, f"notation.{name}")
    tracer.wrap(sys.modules[__name__], "judge", "bench.judge")


def memory_pass(fn: Callable[[Files], bytes], files: Files) -> tuple[bytes, dict[str, float]]:
    """Run one pass, tracing allocations only inside the largest
    ``load_dataset`` call and ``run_suite``; return the result and, per
    call site, the peak of memory allocated during the call, in MB."""
    peaks: dict[str, float] = {}
    patches = Patches()

    def probe(key: str) -> Callable[[Any], Any]:
        def make(original):
            def probed(*args, **kwargs):
                tracemalloc.start()
                try:
                    return original(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    peaks[key] = max(peaks.get(key, 0.0), peak)
            return probed
        return make

    patches.patch(ingest, "load_dataset", probe("ingest.load_dataset.peak_mb"))
    patches.patch(assess, "run_suite", probe("assess.run_suite.peak_mb"))
    try:
        out = fn(files)
    finally:
        patches.restore()
    return out, peaks

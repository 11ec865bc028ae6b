"""The golden outputs: each benchmark workload, generated at seed 1 and full
size, must give the same result bytes as when the benchmark was added, and
each outcomes document must read back to the same bytes.

A refactor or speed-up that changes a single byte of an outcomes document
or an assertion result file fails here. A change that moves a result on
purpose (a new outcomes format, say) updates the digest and explains why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from dqlocus import assess

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import passes  # noqa: E402
from workloads import generate  # noqa: E402

#: SHA-256 of each workload's result bytes at seed 1, as in bench/baseline.json.
GOLDEN = {
    "clean-100k": "7579242342861973cc69a66aa66f9e34c8fec1ed47c2cd77a48ed65bb7b7e796",
    "malformed-5k": "b959da23f089a1eae36d41fa73884fd9c04a9ee59ff2e039381b7c0f05493b17",
    "paired-50k": "63bcd36afa4984c4e18afeca251267a1893d04612808978d1b7bf3e479c9b433",
    "assertions-100k": "b3589f85b03dbd638faf8b7e8583b71a773cf3b21e484bf83a2e37d80152da43",
}


def test_every_workload_has_a_golden_digest():
    assert set(GOLDEN) == set(passes.PASSES)


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_the_golden_digest_is_the_baseline_digest(workload):
    baseline = json.loads((BENCH / "baseline.json").read_text())
    assert GOLDEN[workload] == baseline["workloads"][workload]["result_sha256"]


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_seed_1_result_matches_the_golden_digest(workload):
    files, _ = generate(workload, 1)
    result = passes.PASSES[workload](files)
    assert hashlib.sha256(result).hexdigest() == GOLDEN[workload]
    if passes.PASSES[workload] is not passes.assertions_pass:  # an outcomes document
        assert assess.outcomes_to_json(assess.outcomes_from_json(result)).encode() == result

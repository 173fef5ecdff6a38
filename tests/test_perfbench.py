"""The benchmark's self-test passes on the current source, so a change to
src/ that breaks the tracer's name tables or the claim-to-workload map
fails the test suite, not only a benchmark run; and every claim the
benchmark runs still reports the counts it has recorded."""

import json
import subprocess
import sys
from pathlib import Path

from bmlab import verify

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_claims_report_their_recorded_counts(monkeypatch):
    """A count that differs from perfbench/expected.json makes the benchmark
    reject the change; catch it here first (seed 1, the workloads' dials)."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import representations, structure
    from workloads.claims import checked_counts, claim_kwargs

    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())["claims"]
    got = {}
    for name, kwargs in structure.CLAIMS + representations.CLAIMS:
        rep = verify.run_claim(name, **claim_kwargs(name, kwargs, 1))
        assert rep.status == "pass", (name, rep.witnesses)
        got[name] = checked_counts(name, rep.counts)
    assert got == expected

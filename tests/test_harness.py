import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_quick_run_is_correct(trace):
    # A seconds-long run of every workload at small size: the harness
    # starts and every report passes its checks. Untraced, the end-to-end
    # metrics declared in BENCHMARK.json are all reported; traced, every
    # declared per-layer metric has a value, so the tracer still binds
    # each function it wraps. No timing is gated.
    result = subprocess.run(
        [sys.executable, "mglbench/run.py", "--quick", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        f"{workload['name']}:{metric['name']}"
        for workload in declared["workloads"]
        for metric in declared["per_layer" if trace else "end_to_end"]
    }
    assert expected <= set(summary["metrics"])
    if trace:
        missing = [key for key in expected if summary["metrics"][key]["value"] is None]
        assert missing == []
        # semigroup-id still runs the identity checks through the public
        # functions that the tracer wraps, not through a second path.
        for check in ("laplace", "euler_limit", "form_limit"):
            key = f"identities-rank2:spectral.{check}_check_s"
            assert summary["metrics"][key]["value"] > 0, key

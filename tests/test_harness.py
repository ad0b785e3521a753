import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_quick_run_is_correct():
    # A seconds-long run of every workload at small size: the harness
    # starts, every report passes its checks and the end-to-end metrics
    # declared in BENCHMARK.json are all reported. No timing is gated.
    result = subprocess.run(
        [sys.executable, "mglbench/run.py", "--quick"],
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
        for metric in declared["end_to_end"]
    }
    assert expected <= set(summary["metrics"])

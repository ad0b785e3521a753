"""Benchmark of the mgl CLI: seeded instances, fresh processes, checked reports.

Usage:
    python3 mglbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 mglbench/run.py --quick            # every workload, small, one round

A closed loop with one client: each operation is one `mgl` command in a
fresh process, started when the previous one has ended. A run attempts
whole rounds of the workload's operations until the next round, at the
median round time so far, would end past --seconds. Every report is checked (checks.py); an operation fails
when its report contradicts theory or the independent computation.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones, medians over the run's main commands; with --trace 1
each round also runs every operation traced (spans.py), and the metrics
are the per-layer ones from the traced commands plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".mglbench_work"
SETUP_REPEATS = 7
CONTROL_SEED = 0  # the negative control is one fixed instance for every --seed
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name: (mgl command, n, rank, n in quick mode)
WORKLOADS = {
    "dominate-rank3": ("dominate", 600, 3, 40),
    "identities-rank2": ("semigroup-id", 400, 2, 40),
    "exhaustion-rank2": ("uniqueness", 400, 2, 40),
}
CONTROL = (60, 3)  # n, rank of the W = 0 instance run beside dominate-rank3

# The first multi-threaded BLAS call after the cores have idled (as they do
# during the single-threaded set-up) took about 0.8 s longer on a shared
# 2-core VM; this untimed call pays that before the first measured command.
WARM_UP = ("import numpy as np; a = np.random.default_rng(0).standard_normal((400, 400)); "
           "np.linalg.eigh(a + a.T)")

END_TO_END = {"setup_s": "s", "process_s": "s", "command_s": "s", "peak_rss_mib": "MiB"}


@dataclass
class Operation:
    name: str        # "main" or "control"
    command: str
    instance: dict   # spec dicts and file paths, from specs.read_instance
    check: object    # checks.check_*
    expect: dict     # values the check compares against, computed apart from mgl
    known_fault: bool = False


def _median(values):
    return statistics.median(values) if values else None


def setup(workload: str, seed: int, quick: bool, directory: Path):
    """Write the workload's specs SETUP_REPEATS times; return ops and timings."""
    import checks  # numpy-backed: imported once main() has pinned BLAS threads
    import specs

    command, n, rank, quick_n = WORKLOADS[workload]
    n = quick_n if quick else n
    control_args = (*CONTROL, CONTROL_SEED) if command == "dominate" else ()
    timings = []
    for repeat in range(SETUP_REPEATS):
        target = directory / f"setup{repeat}"
        target.mkdir(parents=True)
        argv = [sys.executable, str(HERE / "specs.py"), str(target),
                *(str(a) for a in (n, rank, seed, *control_args))]
        done = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, check=True)
        timings.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    main = specs.read_instance(target, "main")

    if command == "dominate":
        control = specs.read_instance(target, "control")
        ops = [Operation("main", command, main, checks.check_dominate,
                         {"margin": checks.expected_margin(main)}),
               Operation("control", command, control, checks.check_control,
                         {"c_max": max(control["graph"]["killing"])}, known_fault=True)]
    elif command == "semigroup-id":
        ops = [Operation("main", command, main, checks.check_identities,
                         {"norms": checks.identity_norms(main)})]
    else:
        sizes = checks.exhaustion_sizes(n)
        ops = [Operation("main", command, main, checks.check_exhaustion,
                         {"sizes": sizes, "gap0": checks.scalar_gap(main, sizes[0])})]
    return ops, timings


def run_operation(op: Operation, traced: bool, directory: Path, env: dict,
                  first_reports: dict) -> dict:
    """One fresh mgl process; returns its timings, record and check failures."""
    report = directory / f"{op.name}.report.json"
    record_path = directory / "record.json"
    stderr_path = directory / "stderr.txt"
    for path in (report, record_path):
        path.unlink(missing_ok=True)
    paths = op.instance["paths"]
    argv = [sys.executable, str(HERE / "child.py"), str(SRC), str(record_path),
            "1" if traced else "0", "--", op.command, "--graph", str(paths["graph"]),
            "--bundle", str(paths["bundle"]), "--out", str(report)]
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env, cwd=directory)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        process_s = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)

    out = {"op": op.name, "traced": traced, "process_s": process_s,
           "peak_rss_mib": usage.ru_maxrss / 1024, "failures": []}
    if not record_path.exists() or not report.exists():
        tail = stderr_path.read_text(errors="replace")[-400:]
        out["failures"].append(f"exit {code} without a report: {tail}")
        return out
    record = json.loads(record_path.read_text())
    out.update(command_s=record["command_s"], versions=record["versions"],
               spans=record.get("spans"))
    raw = report.read_bytes()
    if first_reports.setdefault(op.name, raw) != raw:
        out["failures"].append("report bytes differ from the first round's")
    try:
        out["failures"] += op.check(raw, code, op.instance, op.expect)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        out["failures"].append(f"malformed report: {exc!r}")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool):
    nproc = len(os.sched_getaffinity(0))
    env = {k: v for k, v in os.environ.items() if k not in ("MGL_SEED", "PYTHONPATH")}
    env.update({var: str(nproc) for var in BLAS_VARS})
    directory = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        ops, setup_times = setup(workload, seed, quick, directory)
        subprocess.run([sys.executable, "-c", WARM_UP], stdin=subprocess.DEVNULL,
                       env=env, check=True)
        first_reports: dict = {}
        results, round_times = [], []
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            for op in ops:
                for traced in ((False, True) if trace else (False,)):
                    results.append(run_operation(op, traced, directory, env, first_reports))
            round_times.append(time.perf_counter() - start)
            if quick or time.perf_counter() + _median(round_times) > deadline:
                break
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    known = {op.name for op in ops if op.known_fault}
    failed = [r for r in results if r["failures"]]
    correct = all(r["op"] in known for r in failed)
    main = [r for r in results if r["op"] == "main" and "command_s" in r]
    plain = [r for r in main if not r["traced"]]
    if trace:
        traced = [r for r in main if r["traced"]]
        units = {**spans.metric_units(), "trace.overhead_s": "s"}
        values = spans.median_metrics([spans.layer_metrics(r["spans"]) for r in traced]) \
            if traced else {}
        if traced and plain:
            values["trace.overhead_s"] = (_median([r["command_s"] for r in traced])
                                          - _median([r["command_s"] for r in plain]))
    else:
        units = END_TO_END
        values = {"setup_s": _median(setup_times)}
        for key in ("process_s", "command_s", "peak_rss_mib"):
            values[key] = _median([r[key] for r in plain])
    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()}

    versions = next((r["versions"] for r in results if "versions" in r), {})
    environment = {"workload": workload, "seed": seed, "control_seed": CONTROL_SEED,
                   "seconds": seconds, "trace": trace, "quick": quick, "nproc": nproc,
                   "blas_threads": nproc, "rounds": len(round_times), **versions}
    detail = {"environment": environment, "metrics": metrics,
              "commands": [{k: v for k, v in r.items() if k not in ("spans", "versions")}
                           for r in results]}
    return {"correct": correct, "attempted": len(results), "failed": len(failed),
            "metrics": metrics}, detail


def print_result(result: dict, detail: dict) -> None:
    env = detail["environment"]
    print("environment " + json.dumps(env, sort_keys=True))
    failures = Counter((r["op"], f) for r in detail["commands"] for f in r["failures"])
    for (op, failure), count in failures.items():
        print(f"{env['workload']} {op}: {count}x FAILED {failure}")
    for name, m in result["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{env['workload']} {name} = {value} {m['unit']}")
    print(f"{env['workload']} attempted = {result['attempted']}, failed = {result['failed']}, "
          f"correct = {result['correct']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small instances, one round per workload; checks the harness")
    args = parser.parse_args()
    if not (SRC / "mgl" / "cli.py").is_file():
        print(f"mglbench: no mgl sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # numpy is imported only now, so the parent's own BLAS runs one thread
    # and never competes with the measured child for the cores.
    for var in BLAS_VARS:
        os.environ[var] = "1"

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        result, detail = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                      args.quick)
        print_result(result, detail)
        tag = f"{name}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
        (results_dir / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{name}:{key}": m for name, r in results
                             for key, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload run.py knows (those BENCHMARK.json names, plus
serve_mixed) once untraced and once traced (--size tiny, a 2-second
window) and checks that each run

  * exits 0 and ends stdout with one JSON object holding exactly the keys
    correct, attempted, failed and metrics, with correct true, attempted
    >= 1 and failed == 0 (every output check passed);
  * reports exactly the end-to-end metrics (untraced) or per-layer metrics
    (traced) BENCHMARK.json names, each with its unit and a finite value,
    end-to-end values above zero;
  * writes, when traced, a span trace whose events all carry a name, a
    start, a duration, an id and a parent.

It also copies BENCHMARK.json and perfbench/ alone into a scratch
directory and checks that the benchmark fails there without printing a
result. Exit status 0 when everything holds, 1 otherwise.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_build" / "smoke"


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def check_run(spec, workload, trace, failures):
    label = f"{workload} --trace {trace}"
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "2",
                "--trace", str(trace), "--size", "tiny"])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        failures.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        failures.append(f"{label}: last stdout line is not JSON: {lines[-1][:200]}")
        return
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{label}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        failures.append(f"{label}: correct={result['correct']} attempted="
                        f"{result['attempted']} failed={result['failed']}")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    names = {m["name"] for m in expected}
    if set(metrics) != names:
        failures.append(f"{label}: missing {sorted(names - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - names)}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            failures.append(f"{label}: {m['name']} unit {got.get('unit')} != {m['unit']}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{label}: {m['name']} value {value!r} is not a finite number")
        elif not trace and value <= 0:
            failures.append(f"{label}: {m['name']} is {value}, not above zero")
    if trace:
        check_trace(ROOT / ".bench_build" / "traces" / f"{workload}-seed7.json", label, failures)
    print(f"smoke: {label}: {len(metrics)} metrics, {result['attempted']} operations")


def check_trace(path, label, failures):
    try:
        events = json.loads(path.read_text())["traceEvents"]
    except (OSError, ValueError, KeyError) as error:
        failures.append(f"{label}: span trace {path}: {error}")
        return
    if not events:
        failures.append(f"{label}: span trace {path} is empty")
    for event in events:
        if not all(k in event for k in ("name", "ts", "dur")) or \
                not all(k in event.get("args", {}) for k in ("id", "parent")):
            failures.append(f"{label}: malformed span event {event}")
            return


def check_bare(failures):
    """Without the toolkit's sources the benchmark must fail, printing no result."""
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "campaign_mem", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout[:200]!r}")
    shutil.rmtree(bare, ignore_errors=True)
    print(f"smoke: bare copy exits {proc.returncode} without a result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(spec, workload, trace, failures)
    check_bare(failures)
    for failure in failures:
        print(f"smoke: FAIL {failure}", file=sys.stderr)
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

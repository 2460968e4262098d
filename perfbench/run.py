#!/usr/bin/env python3
"""Build and run the qrn end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Run from the root of a source checkout. The first run configures and
builds perfbench/ (the toolkit's runtime libraries from src/ plus the
qrn-bench binary) in .bench_build/ as a Release build; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is qrn-bench's JSON result. Scratch stores and sockets live in
.bench_build/work/ and are removed afterwards; --trace 1 leaves its span
trace in .bench_build/traces/.

Workloads: campaign_mem, campaign_store, campaign_dist, serve_mixed (see
perfbench/README.md). Exit status is qrn-bench's: 0 when every output
check passed, 1 when one failed; 2 for usage errors or when the toolkit
sources are missing; 3 when the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench-release"
BINARY = BUILD_DIR / "qrn-bench"
WORKLOADS = ("campaign_mem", "campaign_store", "campaign_dist", "serve_mixed")
RUN_TIMEOUT_S = 170


def build() -> bool:
    """Configures (once) and builds qrn-bench; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    command = ["cmake", "--build", str(BUILD_DIR), "--target", "qrn-bench", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: no toolkit sources under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    if not build():
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 3

    work_dir = BUILD_ROOT / "work" / f"{args.workload}-{os.getpid()}"
    trace_dir = BUILD_ROOT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--size", args.size, "--work-dir", str(work_dir),
               "--trace-out", str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: qrn-bench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

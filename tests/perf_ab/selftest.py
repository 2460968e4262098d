#!/usr/bin/env python3
"""Self-test of ci/perf_ab.py on stub benchmark programs.

    python3 tests/perf_ab/selftest.py PERF_AB WORK_DIR [CASE...]

Writes stub google-benchmark programs into WORK_DIR. A stub answers
--benchmark_list_tests with its rows, and a filtered JSON run with the
time planted for that row times a seeded noise of at most 3%, or with the
fault planted for it. Each run of a case runs PERF_AB on a BASE and a
CAND stub and checks the exit status and every row's verdict. Runs the
named cases, or every case when none is named; tests/CMakeLists.txt
registers each case as the ctest perf_ab_selftest.CASE. Prints one line
per failed check; exit status 0 when every check holds, 1 otherwise, 2
on a usage error or an unknown case.
"""
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

# A row's plan is its time in ns, or one of the faults below.
FAULTS = {
    "error": "printf '{\"benchmarks\": [{\"name\": \"%s\", \"error_occurred\": "
             "true, \"error_message\": \"planted error\"}]}' \"$row\"",
    "crash": "exit 134",
    "norow": "echo '{\"benchmarks\": []}'",
}

STUB = """#!/bin/bash
if [ "$1" = --benchmark_list_tests ]; then
    printf '%s\\n' {rows}
    exit 0
fi
row=${{1#--benchmark_filter=^}}
row=${{row%\\$}}
n={seed}
[ -f "$0.n" ] && read -r n < "$0.n"
echo $((n + 1)) > "$0.n"
# Up to 3% of noise, from a hash of the run's number.
h=$(( n * 2654435761 % 4294967296 ))
h=$(( (h ^ (h >> 16)) * 2246822519 % 4294967296 ))
noise=$(( (h ^ (h >> 13)) % 61 - 30 ))
case "$row" in
{cases}
esac
echo '{{"benchmarks": [{{"name": "'"$row"'", "run_type": "iteration", "real_time": '$((ns * (1000 + noise) / 1000))', "time_unit": "ns"}}]}}'
"""

ONE, EIGHT = "BM_CampaignJobs/1/real_time", "BM_CampaignJobs/8/real_time"
RATIO = "BM_CampaignJobs jobs-8/jobs-1"


def cases(margin: float) -> dict:
    """Each case's runs: (what, sides, exit status, verdicts). A side is a
    stub's plan, or None for a program that does not exist; verdicts None
    checks the exit status alone."""
    edge = round(10000 * (1 + margin))
    return {
        "equal_rows": [
            ("equal rows; a row at the margin stays open",
             [{"BM_A": 1000, "BM_B/8": 50000, "BM_Edge": 10000},
              {"BM_A": 1000, "BM_B/8": 50000, "BM_Edge": edge}],
             0, {"BM_A": "UNCHANGED", "BM_B/8": "UNCHANGED",
                 "BM_Edge": "UNRESOLVED"})],
        "every_verdict": [
            ("one row of each verdict in one run",
             [{"BM_Same": 1000, "BM_Slow": 1000, "BM_Fast": 1000,
               "BM_Old": 1000, "BM_Err": 1000, "BM_Edge": 10000},
              {"BM_Same": 1000, "BM_Slow": 2000, "BM_Fast": 500,
               "BM_New": 1000, "BM_Err": "error", "BM_Edge": edge}],
             1, {"BM_Same": "UNCHANGED", "BM_Slow": "REGRESSED",
                 "BM_Fast": "IMPROVED", "BM_Old": "GONE", "BM_New": "NEW",
                 "BM_Err": "FAILED", "BM_Edge": "UNRESOLVED"})],
        "regressed_row": [
            ("a row at 2x",
             [{"BM_A": 1000, "BM_B/8": 50000},
              {"BM_A": 2000, "BM_B/8": 50000}],
             1, {"BM_A": "REGRESSED", "BM_B/8": "UNCHANGED"})],
        "unmeasurable_rows": [
            ("rows the candidate cannot measure",
             [{"BM_A": 1000, "BM_Err": 1000, "BM_Crash": 1000,
               "BM_NoRow": 1000},
              {"BM_A": 1000, "BM_Err": "error", "BM_Crash": "crash",
               "BM_NoRow": "norow"}],
             1, {"BM_A": "UNCHANGED", "BM_Err": "FAILED",
                 "BM_Crash": "FAILED", "BM_NoRow": "FAILED"})],
        "new_gone_improved": [
            ("new, gone and improved rows",
             [{"BM_A": 1000, "BM_Old": 1000, "BM_Fixed": "crash"},
              {"BM_A": 500, "BM_New": 1000, "BM_Fixed": 1000}],
             0, {"BM_A": "IMPROVED", "BM_Old": "GONE", "BM_New": "NEW",
                 "BM_Fixed": "NEW"})],
        "scaling_lost": [
            ("jobs-1 twice as fast, jobs-8 unchanged",
             [{ONE: 40000, EIGHT: 10000}, {ONE: 20000, EIGHT: 10000}],
             1, {ONE: "IMPROVED", EIGHT: "UNCHANGED", RATIO: "REGRESSED"})],
        "scaling_margin": [
            ("jobs-1 5% faster: the ratio is lost within the margin",
             [{ONE: 40000, EIGHT: 10000}, {ONE: 38000, EIGHT: 10000}],
             0, {ONE: "UNCHANGED", EIGHT: "UNCHANGED", RATIO: "UNCHANGED"}),
            ("jobs-1 30% faster: the ratio is lost beyond the margin",
             [{ONE: 40000, EIGHT: 10000}, {ONE: 28000, EIGHT: 10000}],
             1, {ONE: "IMPROVED", EIGHT: "UNCHANGED", RATIO: "REGRESSED"})],
        "scaling_ratio": [
            ("both jobs rows twice as slow: the ratio holds",
             [{ONE: 40000, EIGHT: 10000}, {ONE: 80000, EIGHT: 20000}],
             1, {ONE: "REGRESSED", EIGHT: "REGRESSED", RATIO: "UNCHANGED"}),
            ("no jobs-8 row: no ratio row",
             [{ONE: 40000}, {ONE: 40000}], 0, {ONE: "UNCHANGED"})],
        "exit_codes": [
            ("nothing gates", [{"BM_A": 1000}, {"BM_A": 1000}], 0, None),
            ("a row regressed", [{"BM_A": 1000}, {"BM_A": 3000}], 1, None),
            ("one argument", [{"BM_A": 1000}], 2, None),
            ("three arguments", [{"BM_A": 1000}] * 3, 2, None),
            ("a program that cannot list its rows",
             [None, {"BM_A": 1000}], 2, None)],
    }


VERDICT = re.compile(r"(.+?) {2,}(REGRESSED|IMPROVED|UNCHANGED|UNRESOLVED|"
                     r"NEW|GONE|FAILED)\b")


def write_stub(path: Path, plan: dict, seed: int) -> str:
    cases = "\n".join(
        f"    '{row}') {FAULTS[p]}; exit ;;" if isinstance(p, str)
        else f"    '{row}') ns={p} ;;" for row, p in plan.items())
    path.write_text(STUB.format(rows=" ".join(f"'{r}'" for r in plan),
                                seed=seed, cases=cases))
    path.chmod(0o755)
    return str(path)


def check(script: str, work: Path, runs: list, budget: str) -> list:
    """The failed checks of one case's runs."""
    failures = []
    for number, (what, sides, status, want) in enumerate(runs):
        argv = [str(work / f"run{number}-missing") if plan is None else
                write_stub(work / f"run{number}-side{side}", plan,
                           1000 * (side + 1) + number)
                for side, plan in enumerate(sides)]
        run = subprocess.run([sys.executable, script, *argv],
                             capture_output=True, text=True)
        rows = [m for line in run.stdout.splitlines()
                if (m := VERDICT.match(line))]
        got = {m[1]: m[2] for m in rows}
        failed = len(failures)
        if run.returncode != status:
            failures.append(f"{what}: exit {run.returncode}, want {status}")
        if want is not None and got != want:
            failures.append(f"{what}: verdicts {got}, want {want}")
        if any(m[2] == "UNRESOLVED" and not m.string.endswith(budget)
               for m in rows):
            failures.append(f"{what}: a row stopped UNRESOLVED before {budget}")
        if any(plan and "error" in plan.values() for plan in sides) and \
                "planted error" not in run.stdout:
            failures.append(f"{what}: the error message is not shown")
        if len(failures) > failed:
            failures.append(f"{what}: output was\n{run.stdout}{run.stderr}")
    return failures


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    script, work, names = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    constants = runpy.run_path(script)
    every = cases(constants["MARGIN"])
    unknown = [name for name in names if name not in every]
    if unknown:
        print(f"unknown case {unknown[0]}; the cases are {', '.join(every)}",
              file=sys.stderr)
        return 2
    failures = []
    for name in names or every:
        shutil.rmtree(work / name, ignore_errors=True)
        (work / name).mkdir(parents=True)
        failures += check(script, work / name, every[name],
                          f"{constants['MAX_BLOCKS']} blocks")
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
